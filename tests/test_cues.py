from __future__ import annotations

import json
import random
import re
import shutil
import sys
import tracemalloc
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from prsafety import cli, cues
from prsafety import corpus as cm

# Hand-enumerated before extraction ran, in CUE_NAMES order.
HAND_MATRIX = {
    ("acme/rocket", 1): (1, 2, 0, 1, 0, 1, 1, 1, 0, 0, 2, 1, 2),
    ("acme/rocket", 2): (1, 3, 0, 1, 1, 1, 1, 1, 1, 0, 3, 0, 0),
    ("acme/rocket", 3): (0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0),
    ("acme/rocket", 4): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ("acme/rocket", 5): (0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0),
    ("acme/rocket", 6): (1, 4, 0, 1, 0, 1, 2, 1, 1, 0, 3, 1, 2),
    ("acme/rocket", 7): (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ("acme/wrench", 1): (1, 3, 0, 1, 0, 1, 1, 1, 0, 1, 3, 0, 2),
    ("acme/wrench", 2): (1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0),
    ("acme/wrench", 3): (0, 2, 0, 1, 0, 1, 1, 1, 0, 0, 2, 0, 1),
    ("acme/wrench", 4): (1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0),
    ("acme/wrench", 5): (0, 2, 2, 0, 1, 1, 1, 0, 0, 1, 2, 0, 0),
}


def _pull(comments, merged=True, reopen=0, author="ann"):
    return cm.PullRequestRecord(
        "x/y", 1, author, datetime(2019, 1, 1, tzinfo=timezone.utc),
        merged, None, reopen, tuple(comments),
    )


def _comment(author, role, body, minute=0):
    return cm.CommentRecord(
        author, role, body, datetime(2019, 1, 1, 10, minute, tzinfo=timezone.utc)
    )


# --- emoji table and counting ---------------------------------------------------

def test_table_loads_with_version(emoji_table):
    assert emoji_table.version == "1"
    assert len(emoji_table.sequences) > 200


def test_count_empty_text(emoji_table):
    assert cues.count_emojis("", emoji_table) == 0


def test_count_direct_containment(emoji_table):
    assert cues.count_emojis("Great work \U0001F44D\U0001F44D", emoji_table) == 2


def test_longest_match_first(emoji_table):
    # thumbs with a skin tone is one table entry, not thumb + modifier
    assert "\U0001F44D\U0001F3FB" in emoji_table.sequences
    assert cues.count_emojis("\U0001F44D\U0001F3FB", emoji_table) == 1
    # heart with and without the variation selector are distinct entries
    assert cues.count_emojis("❤️❤", emoji_table) == 2
    # zwj sequence counts once even though its head is also an entry
    assert cues.count_emojis("\U0001F469‍\U0001F4BB", emoji_table) == 1


# Text between table entries: the ASCII keycap heads (#, *, 0-9), other
# ASCII, among it punctuation between "#" and "9", a lone ZWJ, VS16 and
# keycap mark, accented, CJK and symbol text whose UTF-8 starts with the
# entries' lead bytes, lone surrogates, and two non-entries that share all
# but their last byte with an entry: U+203D with U+203C, U+1F354 with U+1F355.
_FILLERS = (
    "#", "*", "0", "5", "9", "$", "(", "-", ".", "/", "x", " ", "@", "abc",
    "\u200d", "\ufe0f", "\u20e3",
    "é", "ça marche", "日本語", "漢字", "\u00a9", "\u2122", "\u2600", "\U0001F300",
    "\ud83d", "\ude00", "\udc80", "\u203d", "\U0001F354",
)

_EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _assert_matches_oracle(text, table):
    assert cues.count_emojis(text, table) == oracles.emoji_count_window_scan(
        text, set(table.sequences)
    ), repr(text)


@_EXAMPLES
@given(data=st.data())
def test_emoji_counts_match_window_scan_oracle(emoji_table, data):
    pool = sorted(emoji_table.sequences) + list(_FILLERS)
    parts = data.draw(st.lists(st.sampled_from(pool), max_size=30))
    _assert_matches_oracle("".join(parts), emoji_table)


def test_each_code_point_alone_counts_as_its_table_entry(emoji_table):
    # Surrogates included: the scan encodes them as the table does.
    assert "\u203c" in emoji_table.sequences and "\U0001F355" in emoji_table.sequences
    miscounted = [
        code for code in range(sys.maxunicode + 1)
        if cues.count_emojis(chr(code), emoji_table) != (chr(code) in emoji_table.sequences)
    ]
    assert miscounted == []


@pytest.fixture(scope="module")
def ascii_entry_table(tmp_path_factory):
    # "ab" and ":)" are pure ASCII; "a" is a prefix of "ab"; the keycap and
    # the grinning face come from the packaged table.
    path = tmp_path_factory.mktemp("table") / "table.txt"
    path.write_text("# version: ascii-test\n61-62\n61\n3A-29\n23-FE0F-20E3\n1F600\n", "utf-8")
    return cues.load_emoji_table(path)


def test_ascii_bodies_are_scanned_when_an_entry_is_ascii(ascii_entry_table):
    assert cues.count_emojis("ab a :) b", ascii_entry_table) == 3
    assert cues.count_emojis("no hit here", ascii_entry_table) == 0


@_EXAMPLES
@given(data=st.data())
def test_custom_table_counts_match_window_scan_oracle(ascii_entry_table, data):
    pool = sorted(ascii_entry_table.sequences) + list(_FILLERS) + ["b", ":", ")"]
    parts = data.draw(st.lists(st.sampled_from(pool), max_size=30))
    _assert_matches_oracle("".join(parts), ascii_entry_table)


@pytest.fixture(scope="module")
def metachar_table(tmp_path_factory):
    # Regex metacharacters, a newline, é and è under one lead byte, and é.è,
    # whose prefix é. is no entry: a partial match falls back to é.
    path = tmp_path_factory.mktemp("table") / "table.txt"
    path.write_text("# version: metachar-test\n2E\n5C\n7C\n28\n3F\n5B\n0A\nE9\nE8\nE9-2E-E8\n", "utf-8")
    return cues.load_emoji_table(path)


def test_metacharacter_entries_count_as_literals(metachar_table):
    assert cues.count_emojis(".\\|(?[\n", metachar_table) == 7
    assert cues.count_emojis("a)]*+^$ {}", metachar_table) == 0
    assert cues.count_emojis("é.è", metachar_table) == 1
    assert cues.count_emojis("é.e", metachar_table) == 2
    assert cues.count_emojis("èé", metachar_table) == 2


@_EXAMPLES
@given(data=st.data())
def test_metacharacter_table_counts_match_window_scan_oracle(metachar_table, data):
    pool = sorted(metachar_table.sequences) + list(_FILLERS) + ["é.", "e", ")", "]", "*", "\r"]
    parts = data.draw(st.lists(st.sampled_from(pool), max_size=30))
    _assert_matches_oracle("".join(parts), metachar_table)


def test_a_table_of_nested_prefixes_matches_the_oracle(tmp_path):
    # 1,000 entries "a", "aa", ...: the pattern's nesting does not grow with
    # the table, so the regex parser does not run out of stack.
    path = tmp_path / "table.txt"
    path.write_text("# version: nested\n" + "\n".join("-".join(["61"] * n) for n in range(1, 1001)), "utf-8")
    table = cues.load_emoji_table(path)
    for text in ("a" * 2500, "a" * 999 + "b" + "a" * 1001, "ba", "b"):
        _assert_matches_oracle(text, table)
    assert cues.count_emojis("a" * 2500, table) == 3


def test_a_run_counts_a_lone_surrogate_body_as_no_emoji(tmp_path, small_corpus_dir):
    # The escape "\ud83d" keeps the line ASCII, and it loads as a body that
    # strict UTF-8 cannot encode.  The body it replaces has no cue of its
    # own, so cues.csv is that of the unedited corpus.
    neutral = json.dumps("Rebased and fixed the lint warnings.")
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(small_corpus_dir, corpus_dir)
    pulls = corpus_dir / "pulls.jsonl"
    text = pulls.read_text("utf-8")
    assert neutral in text
    pulls.write_text(text.replace(neutral, json.dumps("\ud83d"), 1), "utf-8")
    assert "\\ud83d" in pulls.read_text("ascii")
    args = ["--data-end", "2025-06-30", "--no-filter"]
    assert cli.main(["cues", "--corpus", str(small_corpus_dir), "--out", str(tmp_path / "before"), *args]) == 0
    assert cli.main(["run", "--corpus", str(corpus_dir), "--out", str(tmp_path / "after"), *args]) == 0
    assert (tmp_path / "after" / "cues.csv").read_bytes() == (tmp_path / "before" / "cues.csv").read_bytes()


def test_fixture_emoji_totals_match_oracle(corpus12, emoji_table):
    bodies = [c.body for p in corpus12.pulls for c in p.comments]
    assert len(bodies) == 20
    total = sum(cues.count_emojis(b, emoji_table) for b in bodies)
    oracle = sum(
        oracles.emoji_count_window_scan(b, set(emoji_table.sequences)) for b in bodies
    )
    assert total == oracle == 7


def test_bad_table_rejected(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("1F600\n", encoding="utf-8")
    with pytest.raises(cues.EmojiTableError, match="version"):
        cues.load_emoji_table(path)
    path.write_text("# version: 9\nnot-hex\n", encoding="utf-8")
    with pytest.raises(cues.EmojiTableError, match="not-hex"):
        cues.load_emoji_table(path)


# --- mention / conflict / fences ------------------------------------------------

@pytest.mark.parametrize(
    "body,expected",
    [
        ("please review @alice", True),
        ("@alice", True),
        ("email me at bob@example.com", False),
        ("a@b", False),
        ("``` @decorator ```", False),
        ("see ```code @alice``` and @bob", True),
        ("unterminated ```fence @alice", False),
        ("@-dash is not a login", False),
        ("thanks@all", False),
    ],
)
def test_mention_rules(body, expected):
    assert cues.has_mention(body) is expected


@pytest.mark.parametrize(
    "body,expected",
    [
        ("there is a conflict here", True),
        ("Conflicts everywhere", True),
        ("conflicted about this", True),
        ("deconflict the schedule", False),
        ("no issues", False),
        ("```merge conflict in lockfile```", True),
        ("CONFL\u0130CT", True),
        ("confl\u0131cting", True),
        ("con\ufb02ict", False),
        ("\u00e9conflict", False),
        ("_conflict", False),
    ],
)
def test_conflict_rules(body, expected):
    assert cues.mentions_conflict(body) is expected


def test_each_prefix_letter_matches_only_its_ascii_pair():
    # The prefilter's premise, over every code point: a character that a
    # case-insensitive prefix letter matches lowercases to that letter, so
    # the lowercased text of every match of _CONFLICT_RE holds the prefix.
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    for letter in cues._CONFLICT_PREFIX:
        assert {ch.lower() for ch in re.findall(letter, everything, re.IGNORECASE)} == {letter}


def test_the_conflict_pattern_starts_with_the_prefix():
    literal = cues._CONFLICT_RE.pattern.removeprefix(r"\b")
    assert literal.startswith(cues._CONFLICT_PREFIX)
    assert cues._CONFLICT_RE.flags & re.IGNORECASE


# Pieces around "conflict": mixed case, U+0130 and U+0131 for its "i", the
# ligature U+FB02 for "fl", the Kelvin sign, word characters before a match,
# fences and whitespace.
_CONFLICT_PIECES = (
    "conflict", "CONFLICT", "Confl", "cOnFl", "confl", "ict", "ICT", "ct", "i",
    "\u0130", "\u0131", "\ufb02", "\u212a", "con", "f", "l",
    "CONFL\u0130CT", "confl\u0131ct", "con\ufb02ict",
    "a", "_", "7", "é", "de", " ", "\n", "```", "-", "'",
)


@_EXAMPLES
@given(parts=st.lists(st.sampled_from(_CONFLICT_PIECES), max_size=12))
def test_conflict_search_matches_the_scan_oracle(parts):
    text = "".join(parts)
    assert cues.mentions_conflict(text) == oracles.conflict_scan(text), repr(text)


def test_strip_code_fences():
    assert "b" not in cues.strip_code_fences("a ```b``` c")
    assert cues.strip_code_fences("a ```b") == "a "
    assert cues.strip_code_fences("plain") == "plain"
    # stripping must not glue the halves into a new token
    assert "ac" not in cues.strip_code_fences("a```b```c")


# --- extraction -------------------------------------------------------------------

def _cues_of(pull, emoji_table):
    ((_, vector),) = cues.extract_all([pull], emoji_table)
    return vector


def test_zero_comment_merged_pr(emoji_table):
    vector = _cues_of(_pull([], merged=True), emoji_table)
    assert vector.merged_or_not == 1
    assert all(
        getattr(vector, name) == 0 for name in cues.CUE_NAMES if name != "merged_or_not"
    )


def test_contributor_plus_integrator_example(emoji_table):
    vector = _cues_of(
        _pull(
            [
                _comment("ann", "contributor", "please review @alice", 0),
                _comment("kai", "integrator", "done", 1),
            ]
        ),
        emoji_table,
    )
    assert (vector.contrib_comment, vector.inte_comment, vector.has_exchange) == (1, 1, 1)
    assert vector.num_comments_con == 1
    assert vector.pr_comment_num == 2
    assert vector.num_participant == 2
    assert vector.at_tag == 1


def test_fixture_matches_hand_matrix(cue_rows12):
    assert len(cue_rows12) == 12
    for pull, vector in cue_rows12:
        got = tuple(getattr(vector, name) for name in cues.CUE_NAMES)
        assert got == HAND_MATRIX[(pull.repo_full_name, pull.pr_number)], (
            pull.repo_full_name,
            pull.pr_number,
        )


def test_order_insensitivity(corpus12, emoji_table):
    rng = random.Random(11)
    for pull in corpus12.pulls:
        if len(pull.comments) < 2:
            continue
        shuffled = list(pull.comments)
        rng.shuffle(shuffled)
        permuted = replace(pull, comments=tuple(shuffled))
        assert _cues_of(permuted, emoji_table) == _cues_of(pull, emoji_table)


def test_structural_invariants_on_fixture(cue_rows12):
    for _, v in cue_rows12:
        assert v.has_exchange == int(bool(v.contrib_comment and v.inte_comment))
        assert v.contrib_comment == int(v.num_comments_con >= 1)
        assert v.pr_comment_num >= v.num_comments_con
        if v.pr_comment_num >= 1:
            assert v.num_participant >= 1
        assert v.num_participant <= v.pr_comment_num


def test_cues_csv_layout(tmp_path, cue_rows12):
    path = tmp_path / "cues.csv"
    cues.write_cues_csv(path, cue_rows12)
    lines = path.read_text("utf-8").strip().splitlines()
    assert lines[0] == "repo_full_name,pr_number," + ",".join(cues.CUE_NAMES)
    assert len(lines) == 13
    assert lines[1] == "acme/rocket,1,1,2,0,1,0,1,1,1,0,0,2,1,2"


def _table(repos, numbers, rows):
    pulls = [
        cm.PullRequestRecord(repo, number, "ann", datetime(2019, 1, 1, tzinfo=timezone.utc), True, None, 0)
        for repo, number in zip(repos, numbers)
    ]
    columns = dict(zip(cues.CUE_NAMES, np.array(rows, dtype=np.int64).reshape(-1, 13).T))
    return cues.CueTable(pulls, columns)


def _assert_written_as_rows(tmp_path, table):
    cues.write_cues_csv(tmp_path / "cues.csv", table)
    oracles.write_cues_csv_rows(tmp_path / "oracle.csv", table)
    assert (tmp_path / "cues.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


_ODD_NAMES = (
    "acme/rocket", "a,b/c", 'say "hi"/x', "cr\rlf/x", "new\nline/x", " lead/x", "trail /x",
    "", "日本/語", "caf\u00e9/\U0001F680", '"', ",", "\r\n",
)


def test_cue_rows_are_written_as_csv_writer_writes_them(tmp_path):
    big = cm.INTEGER_MAX
    counts = (0, 255, 256, big)
    rows = [
        (k % 2, counts[k % 4], counts[(k + 1) % 4], 1, 0, 1, counts[(k + 2) % 4], 0, 1, 0, k % 4, 1, counts[(k + 3) % 4])
        for k in range(len(_ODD_NAMES) * 4)
    ]
    repos = [_ODD_NAMES[k % len(_ODD_NAMES)] for k in range(len(rows))]
    numbers = [(0, 1, 256, big)[k % 4] for k in range(len(rows))]
    _assert_written_as_rows(tmp_path, _table(repos, numbers, rows))
    assert str(big) in (tmp_path / "cues.csv").read_text("utf-8")


def test_all_distinct_cue_rows_across_chunks(tmp_path):
    n = 3 * cues._WRITE_CHUNK + 5
    rows = [(k % 2, k, k // 3, 0, 1, 0, k * 7, 1, 0, 1, k % 11, 0, k * 13) for k in range(n)]
    assert len(set(rows)) == n
    _assert_written_as_rows(tmp_path, _table([f"r/{k % 17}" for k in range(n)], range(n), rows))


def test_an_empty_table_writes_the_header_alone(tmp_path):
    _assert_written_as_rows(tmp_path, _table([], [], []))
    assert (tmp_path / "cues.csv").read_text("utf-8").count("\n") == 1


def test_synthetic_corpora_cue_rows_are_written_as_rows(tmp_path, cue_rows12, small_corpus_dir, scaled_corpus_dir, emoji_table):
    _assert_written_as_rows(tmp_path, cue_rows12)
    for directory in (small_corpus_dir, scaled_corpus_dir):
        pulls = cm.load_corpus(directory).corpus.pulls
        _assert_written_as_rows(tmp_path, cues.extract_all(pulls, emoji_table))


def test_cues_csv_is_written_in_pieces(tmp_path):
    # 60,000 rows make a file of about 3 MB; the writer holds a chunk of it.
    n = 60_000
    rows = np.zeros((n, 13), dtype=np.int64)
    rows[:, 1] = np.arange(n) % 5
    rows[:, 12] = np.arange(n) % 3
    table = _table([f"owner/repo{k % 26}" for k in range(n)], range(1, n + 1), rows)
    tracemalloc.start()
    try:
        cues.write_cues_csv(tmp_path / "cues.csv", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "cues.csv").stat().st_size > 2_500_000
    assert peak < 2_000_000, peak
