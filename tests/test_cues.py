from __future__ import annotations

import random
from dataclasses import replace
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from prsafety import corpus as cm
from prsafety import cues

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
# ASCII, a lone ZWJ, VS16 and keycap mark, and accented, CJK and symbol text
# whose codepoints fall inside or near the scan's prefilter ranges.
_FILLERS = (
    "#", "*", "0", "5", "9", "x", " ", "@", "abc", "\u200d", "\ufe0f", "\u20e3",
    "é", "ça marche", "日本語", "漢字", "\u00a9", "\u2122", "\u2600", "\U0001F300",
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
    ],
)
def test_conflict_rules(body, expected):
    assert cues.mentions_conflict(body) is expected


def test_strip_code_fences():
    assert "b" not in cues.strip_code_fences("a ```b``` c")
    assert cues.strip_code_fences("a ```b") == "a "
    assert cues.strip_code_fences("plain") == "plain"
    # stripping must not glue the halves into a new token
    assert "ac" not in cues.strip_code_fences("a```b```c")


# --- extraction -------------------------------------------------------------------

def test_zero_comment_merged_pr(emoji_table):
    vector = cues.extract_cues(_pull([], merged=True), emoji_table)
    assert vector.merged_or_not == 1
    assert all(
        getattr(vector, name) == 0 for name in cues.CUE_NAMES if name != "merged_or_not"
    )


def test_contributor_plus_integrator_example(emoji_table):
    vector = cues.extract_cues(
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
        assert cues.extract_cues(permuted, emoji_table) == cues.extract_cues(
            pull, emoji_table
        )


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
