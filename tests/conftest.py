from __future__ import annotations

from datetime import date
from pathlib import Path

import pytest

from prsafety import corpus as corpus_mod
from prsafety import cues as cues_mod
from prsafety import participation

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

CORPUS12_DATA_END = date(2021, 6, 30)


@pytest.fixture(scope="session")
def corpus12_dir() -> Path:
    return FIXTURES / "corpus12"


@pytest.fixture(scope="session")
def corpus12(corpus12_dir) -> corpus_mod.Corpus:
    result = corpus_mod.load_corpus(corpus12_dir)
    assert result.errors == []
    return result.corpus


@pytest.fixture(scope="session")
def emoji_table() -> cues_mod.EmojiTable:
    return cues_mod.load_emoji_table()


@pytest.fixture(scope="session")
def cue_rows12(corpus12, emoji_table):
    return cues_mod.extract_all(corpus12.pulls, emoji_table)


@pytest.fixture(scope="session")
def labels12(corpus12):
    config = participation.LabelingConfig(data_end=CORPUS12_DATA_END)
    contributors = {(p.repo_full_name, p.author) for p in corpus12.pulls}
    return participation.label_contributors(corpus12.commits, contributors, config)


@pytest.fixture(scope="session")
def small_corpus_dir(tmp_path_factory) -> Path:
    from synth import build_small_corpus

    directory = tmp_path_factory.mktemp("small_corpus")
    build_small_corpus(directory)
    return directory


@pytest.fixture(scope="session")
def scaled_corpus_dir(tmp_path_factory) -> Path:
    """The 60,684-PR corpus of acceptance criterion 8."""
    from synth import build_scaled_corpus

    directory = tmp_path_factory.mktemp("scaled") / "corpus"
    directory.mkdir()
    build_scaled_corpus(directory)
    return directory
