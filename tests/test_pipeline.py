from __future__ import annotations

import csv
import hashlib
import json
import random
import re
import shutil
import sys
from collections import Counter
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import synth
from conftest import CORPUS12_DATA_END
from prsafety import cues, diagnostics, glm, pipeline, reporting
from prsafety.corpus import MAX_NESTING, REQUIRED_FILES, FilterConfig, load_corpus, save_corpus
from prsafety.participation import LabelingConfig
from prsafety.ps_index import OUTCOME_COUPLING_NOTE


def _config(corpus_dir, out_dir, **overrides):
    kwargs = dict(
        corpus_dir=Path(corpus_dir),
        out_dir=Path(out_dir),
        labeling=LabelingConfig(data_end=date(2025, 6, 30)),
        filter=None,
    )
    kwargs.update(overrides)
    return pipeline.PipelineConfig(**kwargs)


def _checksums(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


# --- configuration ------------------------------------------------------------------

def test_config_requires_valid_fields(tmp_path):
    with pytest.raises(pipeline.ConfigError, match="unit"):
        _config(tmp_path, tmp_path, unit="team")
    with pytest.raises(pipeline.ConfigError, match="threshold_scope"):
        _config(tmp_path, tmp_path, threshold_scope="daily")
    with pytest.raises(pipeline.ConfigError, match="at least one model"):
        _config(tmp_path, tmp_path, models=())
    with pytest.raises(pipeline.ConfigError, match="model indices"):
        _config(tmp_path, tmp_path, models=(1, 4))


_CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["2019-06-30", "0001-01-01", "9999-12-31", "2025-06-30", "global",
                       "per_repository", "pr", "contributor", "corpus/", 10**400, 10**12]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Section values lean to numbers: range checks, and sizes past the date or
# float range, live there.
_SECTION_VALUES = st.integers() | st.floats() | st.sampled_from([10**12, 10**400]) | _CONFIG_VALUES
_SECTION_KEYS = {
    "labeling": ["data_end", "snapshot_date", "window_months", "recent_horizon_end",
                 "censor_margin_months", "gap_months"],
    "filter": ["top_n_by_stars", "excluded_labels"],
    "screening": ["skew_threshold", "minority_threshold", "skew_type"],
}
_TOP_KEYS = ["threshold_scope", "merged_only", "global_activity", "unit", "models",
             "emoji_table_path"]
# Keys that name no setting, at the top and in each section.
_UNKNOWN_KEYS = ["treshold_scope", "window_month", "comment"]
# The paths are fixed and labeling is an object with a data_end, so that most
# draws get past the first checks to the sections.
_CONFIGS = st.fixed_dictionaries(
    {
        "corpus_dir": st.just("c"),
        "out_dir": st.just("o"),
        "labeling": st.fixed_dictionaries(
            {"data_end": st.sampled_from(["2025-06-30", "0001-01-02", "9999-12-31"]) | _CONFIG_VALUES},
            optional={key: _SECTION_VALUES for key in _SECTION_KEYS["labeling"][1:] + _UNKNOWN_KEYS},
        ),
    },
    optional={
        **{key: _CONFIG_VALUES for key in _TOP_KEYS + _UNKNOWN_KEYS},
        **{section: st.dictionaries(st.sampled_from(_SECTION_KEYS[section] + _UNKNOWN_KEYS),
                                    _SECTION_VALUES)
           | _CONFIG_VALUES for section in ("filter", "screening")},
    },
)


def _names_an_unknown_key(raw) -> bool:
    sections = [raw] + [raw[s] for s in ("labeling", "filter", "screening") if isinstance(raw.get(s), dict)]
    return any(key in _UNKNOWN_KEYS for section in sections for key in section)


_BASE = {"corpus_dir": "c", "out_dir": "o", "labeling": {"data_end": "2025-06-30"}}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=_CONFIGS)
@example(raw={**_BASE, "labeling": {"data_end": "2025-06-30", "window_months": 10**12}})
@example(raw={**_BASE, "labeling": {"data_end": "2025-06-30", "censor_margin_months": 10**5}})
@example(raw={**_BASE, "screening": {"skew_threshold": 10**400}})
@example(raw={**_BASE, "treshold_scope": "per_repository"})
@example(raw={**_BASE, "labeling": {"data_end": "2025-06-30", "window_month": 6}})
def test_any_config_mapping_is_a_config_or_a_config_error(raw):
    try:
        config = pipeline.config_from_dict(raw)
    except pipeline.ConfigError:
        return
    assert not _names_an_unknown_key(raw)
    assert isinstance(config, pipeline.PipelineConfig)
    assert pipeline.config_hash(config)


def test_config_from_dict_requirements(tmp_path):
    with pytest.raises(pipeline.ConfigError, match="corpus_dir"):
        pipeline.config_from_dict({"out_dir": "o", "labeling": {"data_end": "2025-01-01"}})
    with pytest.raises(pipeline.ConfigError, match="out_dir"):
        pipeline.config_from_dict({"corpus_dir": "c", "labeling": {"data_end": "2025-01-01"}})
    with pytest.raises(pipeline.ConfigError, match="data_end"):
        pipeline.config_from_dict({"corpus_dir": "c", "out_dir": "o"})
    with pytest.raises(pipeline.ConfigError, match="ISO date"):
        pipeline.config_from_dict(
            {"corpus_dir": "c", "out_dir": "o", "labeling": {"data_end": "soon"}}
        )
    # labeling inconsistencies surface as configuration errors, not crashes
    with pytest.raises(pipeline.ConfigError, match="precede"):
        pipeline.config_from_dict(
            {
                "corpus_dir": "c",
                "out_dir": "o",
                "labeling": {"data_end": "2019-01-01"},
            }
        )


def test_overrides_beat_file_values():
    raw = {
        "corpus_dir": "from_file",
        "out_dir": "from_file_out",
        "labeling": {"data_end": "2025-06-30"},
        "merged_only": False,
    }
    config = pipeline.config_from_dict(raw, {"out_dir": "cli_out", "merged_only": True})
    assert config.out_dir == Path("cli_out")
    assert config.corpus_dir == Path("from_file")
    assert config.merged_only is True


def test_readme_config_block_shows_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## Running the pipeline\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```json\n(.*?)```", section, re.S)
    shown = json.loads(block)
    required = {"corpus_dir": shown["corpus_dir"], "out_dir": shown["out_dir"],
                "labeling": {"data_end": shown["labeling"]["data_end"]}}
    defaults = pipeline.config_from_dict(required).to_json()
    assert pipeline.config_from_dict(shown).to_json() == defaults
    assert shown == defaults


def _with_frames(frames: int, call):
    return call() if frames == 0 else _with_frames(frames - 1, call)


def test_read_config_file_errors(tmp_path):
    with pytest.raises(pipeline.ConfigError, match="not found"):
        pipeline.read_config_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(pipeline.ConfigError, match="not valid JSON"):
        pipeline.read_config_file(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(pipeline.ConfigError, match="JSON object"):
        pipeline.read_config_file(array)
    good = tmp_path / "good.json"
    good.write_text('{"corpus_dir": "c"}', encoding="utf-8")
    assert pipeline.read_config_file(good) == {"corpus_dir": "c"}
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"corpus_dir": "caf\xe9"}')
    with pytest.raises(pipeline.ConfigError, match=r"latin1\.json is not UTF-8 \(byte 19\)"):
        pipeline.read_config_file(latin1)
    # The corpus's nesting limit holds at every call depth: 256 levels reach the key check.
    deepest, too_deep = tmp_path / "deepest.json", tmp_path / "too_deep.json"
    for path, depth in ((deepest, MAX_NESTING), (too_deep, MAX_NESTING + 1)):
        path.write_text('{"a": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}", encoding="utf-8")
    for frames in (0, 300):
        with pytest.raises(pipeline.ConfigError, match="^a is not a setting$"):
            _with_frames(frames, lambda: pipeline.config_from_dict(pipeline.read_config_file(deepest)))
        with pytest.raises(pipeline.ConfigError, match=r"too_deep\.json is nested too deeply$"):
            _with_frames(frames, lambda: pipeline.read_config_file(too_deep))


def test_config_hash_tracks_content(tmp_path):
    a = _config(tmp_path, tmp_path / "o")
    b = _config(tmp_path, tmp_path / "o")
    c = _config(tmp_path, tmp_path / "o", merged_only=True)
    assert pipeline.config_hash(a) == pipeline.config_hash(b)
    assert pipeline.config_hash(a) != pipeline.config_hash(c)
    assert len(pipeline.config_hash(a)) == 64
    unordered, ordered = (
        pipeline.config_from_dict({"corpus_dir": "c", "out_dir": "o", "models": models,
                                   "labeling": {"data_end": "2025-06-30"}})
        for models in ([3, 1], [1, 3])
    )
    assert unordered.models == ordered.models == (1, 3)
    assert pipeline.config_hash(unordered) == pipeline.config_hash(ordered)
    assert unordered.to_json()["models"] == [1, 3]


def test_config_hash_is_the_sha256_of_the_canonical_json(tmp_path):
    configs = [
        _config(tmp_path, tmp_path / "o"),
        _config(tmp_path, tmp_path / "o", merged_only=True, unit="contributor", models=(2,)),
        _config(tmp_path / "\u00e9\u65e5", tmp_path / "o", threshold_scope="per_repository",
                filter=FilterConfig(), screening=diagnostics.ScreeningConfig(skew_threshold=2.5)),
    ]
    for config in configs:
        canonical = json.dumps(config.to_json(), sort_keys=True, separators=(",", ":"))
        assert pipeline.config_hash(config) == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    # The interpreter's own module, not hashlib's OpenSSL binding: _sha2 from
    # Python 3.12 on, _sha256 before (the CI matrix runs both).
    builtin = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    assert pipeline._SHA256.__module__ == builtin


def test_missing_corpus_dir_is_config_error(tmp_path):
    config = _config(tmp_path / "nowhere", tmp_path / "out")
    with pytest.raises(pipeline.ConfigError, match="nowhere"):
        pipeline.load_and_filter(config)


# --- full runs -------------------------------------------------------------------------

def test_small_corpus_run_end_to_end(small_corpus_dir, tmp_path):
    out = tmp_path / "out"
    result = pipeline.run_pipeline(_config(small_corpus_dir, out))

    assert sorted(result.fits) == [1, 2]
    assert list(result.model_failures) == [3]
    assert "quasi-separation" in result.model_failures[3]

    for name in pipeline.ARTIFACT_FILES:
        assert (out / name).is_file(), name
    for extra in ("model_1.json", "model_2.json", "model_3.json", "report.txt", "manifest.json"):
        assert (out / extra).is_file(), extra

    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["config_hash"] == pipeline.config_hash(result.config)
    assert manifest["emoji_table_version"] == "1"
    assert manifest["thresholds"]["scope"] == "global"
    assert set(manifest["thresholds"]["global"]) == {
        "pr_comment_num", "num_comments_con", "num_participant",
    }
    assert len(manifest["screening"]["variables"]) == 13
    assert manifest["role_provenance"] == "stored"
    assert manifest["row_counts"]["pulls"] == 610
    assert manifest["row_counts"]["labeled_contributors"] == 50
    pr_scores, skipped_prs = oracles.keyed_scores(result.summary)
    assert manifest["row_counts"]["scored_prs"] == len(pr_scores)
    assert manifest["row_counts"]["skipped_prs"] == len(skipped_prs)
    assert len(pr_scores) + len(skipped_prs) == 610
    assert manifest["vif"]["threshold"] == 5.0
    assert set(manifest["vif"]["per_model"]) == {"1", "2"}
    assert isinstance(manifest["vif"]["all_below_threshold"], bool)
    assert manifest["notes"][0] == OUTCOME_COUPLING_NOTE
    assert any("model_3 has no finite fit" in note for note in manifest["notes"])
    assert list(manifest["model_failures"]) == ["3"]
    assert manifest["failure"] is None
    assert manifest["artifacts"] == sorted(
        list(pipeline.ARTIFACT_FILES) + ["model_1.json", "model_2.json", "model_3.json"]
    )

    failed = json.loads((out / "model_3.json").read_text("utf-8"))
    assert failed["error"].startswith("quasi-separation")
    report = (out / "report.txt").read_text("utf-8")
    assert "Note: model_3 has no finite fit" in report
    assert "Note: " + OUTCOME_COUPLING_NOTE in report


def test_artifacts_share_one_json_and_one_csv_form(small_corpus_dir, tmp_path):
    out = tmp_path / "out"
    result = pipeline.run_pipeline(_config(small_corpus_dir, out))
    json_files = sorted(out.glob("*.json"))
    assert {p.name for p in json_files} >= {"manifest.json", "screening_report.json", "model_1.json"}
    for path in json_files:
        text = path.read_text("utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name
    tables = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as handle:
            rows = tables[path.name] = list(csv.reader(handle))
        assert all(len(row) == len(rows[0]) for row in rows), path.name
    assert tables["cues.csv"][0] == ["repo_full_name", "pr_number", *cues.CUE_NAMES]
    assert tables["labels.csv"][0][:3] == ["repo_full_name", "author", "status"]
    assert tables["ps_index_repository.csv"][0] == ["repo_full_name", "ps_index"]
    assert tables["ps_index_contributor.csv"][0] == ["repo_full_name", "author", "ps_index"]

    models = tables.pop("models_table.csv")
    assert sorted(tables) == ["cues.csv", "labels.csv", "ps_index_contributor.csv", "ps_index_repository.csv"]
    assert models[0] == ["term", *(f"Model {i} {c}" for i in result.fits for c in ("beta(SE)", "OR"))]
    lines = reporting.format_models_table(result.fits).splitlines()
    for term, *cells in models[1:]:
        (line,) = [line for line in lines if line.startswith(term + "  ")]
        assert [cell for cell in cells if cell] == line[len(term):].split(), term


def test_manifest_carries_no_wall_clock_fields(small_corpus_dir, tmp_path):
    out = tmp_path / "out"
    result = pipeline.run_pipeline(_config(small_corpus_dir, out))
    flat_keys = set()

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                flat_keys.add(key)
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(result.manifest)
    assert not flat_keys & {"timestamp", "generated_at", "created_at", "duration", "elapsed"}


def test_repeated_runs_are_byte_identical(small_corpus_dir, tmp_path):
    out = tmp_path / "out"
    pipeline.run_pipeline(_config(small_corpus_dir, out))
    first = _checksums(out)
    pipeline.run_pipeline(_config(small_corpus_dir, out))
    second = _checksums(out)
    assert first == second


def test_contributor_unit_collapses_rows(small_corpus_dir, tmp_path):
    result = pipeline.run_pipeline(
        _config(small_corpus_dir, tmp_path / "out", unit="contributor")
    )
    labeled_binary = sum(
        1 for label in result.labeling.labels.values()
        if label.sustainedp_or_not_12 is not None
    )
    assert result.fits[1].n_observations == labeled_binary == 44


def test_per_repository_scope_reaches_manifest(small_corpus_dir, tmp_path):
    result = pipeline.run_pipeline(
        _config(small_corpus_dir, tmp_path / "out", threshold_scope="per_repository")
    )
    assert result.manifest["thresholds"]["scope"] == "per_repository"
    assert sorted(result.manifest["thresholds"]["per_repository"]) == [
        "acme/alpha", "acme/beta", "acme/gamma",
    ]
    assert result.manifest["thresholds"]["global"] is None


def test_restricting_models_limits_artifacts(small_corpus_dir, tmp_path):
    out = tmp_path / "out"
    result = pipeline.run_pipeline(_config(small_corpus_dir, out, models=(1,)))
    assert sorted(result.fits) == [1]
    assert result.model_failures == {}
    assert (out / "model_1.json").is_file()
    assert not (out / "model_2.json").exists()
    assert not (out / "model_3.json").exists()


def test_all_models_failing_is_a_stage_error(corpus12_dir, tmp_path):
    out = tmp_path / "out"
    config = _config(
        corpus12_dir, out, labeling=LabelingConfig(data_end=CORPUS12_DATA_END)
    )
    with pytest.raises(pipeline.StageError, match="no requested model has a finite fit"):
        pipeline.run_pipeline(config)

    # every stage artifact before the failure is still on disk
    for name in pipeline.ARTIFACT_FILES:
        assert (out / name).is_file(), name
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["failure"] == {
        "stage": "fit",
        "detail": "no requested model has a finite fit",
    }
    assert set(manifest["model_failures"]) == {"1", "2", "3"}
    for index in (1, 2, 3):
        payload = json.loads((out / f"model_{index}.json").read_text("utf-8"))
        assert "error" in payload
    report = (out / "report.txt").read_text("utf-8")
    assert "Sustained participation models" not in report
    assert report.count("has no finite fit") == 3


# --- metamorphic properties: what the method ignores moves no byte ----------------------
# Each pair of runs reads one corpus path and writes one out path, because
# manifest.json records both; the corpus is rewritten in place between them.

def _filtered_run(corpus_dir: Path, out: Path) -> dict[str, str]:
    shutil.rmtree(out, ignore_errors=True)
    pipeline.run_pipeline(_config(corpus_dir, out, filter=FilterConfig()))
    return _checksums(out)


def test_corpus_line_order_moves_no_artifact(tmp_path):
    corpus_dir, out = tmp_path / "corpus", tmp_path / "out"
    synth.build_small_corpus(corpus_dir)
    before = _filtered_run(corpus_dir, out)
    rng = random.Random(61)
    for name in REQUIRED_FILES:
        lines = (corpus_dir / name).read_text("utf-8").splitlines(keepends=True)
        shuffled = rng.sample(lines, len(lines))
        assert shuffled != lines, name
        (corpus_dir / name).write_text("".join(shuffled), encoding="utf-8")
    assert _filtered_run(corpus_dir, out) == before


def test_comment_placement_moves_no_artifact(tmp_path):
    # The same comments embedded in pulls.jsonl, then on their own lines in a
    # shuffled comments.jsonl keyed by the pull.
    corpus_dir, out = tmp_path / "corpus", tmp_path / "out"
    synth.build_small_corpus(corpus_dir)
    before = _filtered_run(corpus_dir, out)
    pulls, separate = [], []
    for line in (corpus_dir / "pulls.jsonl").read_text("utf-8").splitlines():
        pull = json.loads(line)
        key = {"repo_full_name": pull["repo_full_name"], "pr_number": pull["pr_number"]}
        separate += [json.dumps({**key, **comment}) for comment in pull["comments"]]
        pulls.append(json.dumps({**pull, "comments": []}))
    assert len(separate) > 100
    random.Random(67).shuffle(separate)
    (corpus_dir / "pulls.jsonl").write_text("\n".join(pulls) + "\n", encoding="utf-8")
    (corpus_dir / "comments.jsonl").write_text("\n".join(separate) + "\n", encoding="utf-8")
    assert _filtered_run(corpus_dir, out) == before


def test_a_saved_corpus_runs_to_the_same_artifacts(tmp_path):
    # save_corpus(load_corpus(d)) rewrites a corpus in canonical form: here
    # from shuffled lines with a separate comments.jsonl and a bad line.
    corpus_dir, out, saved = tmp_path / "corpus", tmp_path / "out", tmp_path / "saved"
    synth.build_small_corpus(corpus_dir)
    rng = random.Random(71)
    for name in REQUIRED_FILES:
        lines = (corpus_dir / name).read_text("utf-8").splitlines(keepends=True)
        (corpus_dir / name).write_text("".join(rng.sample(lines, len(lines))), encoding="utf-8")
    first = load_corpus(corpus_dir).corpus.pulls[0]
    separate = [
        json.dumps({"repo_full_name": first.repo_full_name, "pr_number": first.pr_number,
                    "role": "other", "author": "visitor", "body": "late note",
                    "created_at": "2019-12-01T00:00:00Z"}),
        "{not json",
    ]
    (corpus_dir / "comments.jsonl").write_text("\n".join(separate) + "\n", encoding="utf-8")
    before = _filtered_run(corpus_dir, out)
    assert (out / "ingest_errors.jsonl").read_text("utf-8")
    save_corpus(load_corpus(corpus_dir).corpus, saved)
    shutil.rmtree(corpus_dir)
    saved.rename(corpus_dir)
    manifest_before = json.loads((out / "manifest.json").read_text("utf-8"))
    after = _filtered_run(corpus_dir, out)
    moved = {name for name in before if after.get(name) != before[name]}
    assert sorted(after) == sorted(before)
    # The bad line is gone from the saved corpus, so the manifest's count of
    # ingest errors moves with the error report, and nothing else does.
    assert moved == {"ingest_errors.jsonl", "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["row_counts"].pop("ingest_errors") == 0
    assert manifest_before["row_counts"].pop("ingest_errors") == 1
    assert manifest == manifest_before


def test_a_repository_the_filter_drops_moves_no_artifact(tmp_path):
    corpus_dir, out, extra = tmp_path / "corpus", tmp_path / "out", tmp_path / "extra"
    synth.build_small_corpus(corpus_dir)
    before = _filtered_run(corpus_dir, out)
    # Its own pulls, commits and contexts, and a label the filter excludes.
    synth.build_scaled_corpus(extra, counts=(("course/tutorial", 90),), seed=67, prs_per_author=12)
    for name in REQUIRED_FILES:
        text = (extra / name).read_text("utf-8")
        if name == "repos.jsonl":
            text = text.replace('"category_labels":[]', '"category_labels":["education"]')
            assert "education" in text
        with open(corpus_dir / name, "a", encoding="utf-8") as handle:
            handle.write(text)
    assert len(load_corpus(corpus_dir).corpus.repos) == len(synth.SMALL_COUNTS) + 1
    assert _filtered_run(corpus_dir, out) == before


# A prefix every name shares keeps the names' order, so it may move no number.
_PREFIX = "mirror-of-the-upstream-"


def _renamed(value):
    """A decoded corpus line with _PREFIX on every author and repository name."""
    if isinstance(value, list):
        return [_renamed(item) for item in value]
    if isinstance(value, dict):
        return {key: _PREFIX + item if key in ("author", "repo_full_name") else _renamed(item)
                for key, item in value.items()}
    return value


def _report_cells(text: str) -> list[list[str]]:
    """report.txt without _PREFIX, its lines split on runs of spaces and rules shortened."""
    return [re.sub("-{2,}", "-", line).split() for line in text.replace(_PREFIX, "").splitlines()]


def test_a_prefix_on_every_name_moves_no_number(tmp_path):
    corpus_dir, out = tmp_path / "corpus", tmp_path / "out"
    synth.build_small_corpus(corpus_dir)
    _filtered_run(corpus_dir, out)
    before = {p.name: p.read_text("utf-8") for p in out.iterdir()}
    for name in REQUIRED_FILES:
        lines = (corpus_dir / name).read_text("utf-8").splitlines()
        renamed = [json.dumps(_renamed(json.loads(line)), separators=(",", ":")) for line in lines]
        (corpus_dir / name).write_text("\n".join(renamed) + "\n", encoding="utf-8")
    _filtered_run(corpus_dir, out)
    after = {p.name: p.read_text("utf-8") for p in out.iterdir()}
    assert sorted(after) == sorted(before)
    assert not any(_PREFIX in text for text in before.values())
    for name in ("model_1.json", "model_2.json", "model_3.json", "models_table.csv",
                 "screening_report.json", "ingest_errors.jsonl"):
        assert after[name] == before[name], name
    for name in ("cues.csv", "labels.csv", "ps_index_contributor.csv", "ps_index_repository.csv"):
        assert _PREFIX in after[name], name
        assert after[name].replace(_PREFIX, "") == before[name], name
    # The repository column of the index table widens to the longer names.
    assert after["report.txt"].replace(_PREFIX, "") != before["report.txt"]
    assert _report_cells(after["report.txt"]) == _report_cells(before["report.txt"])


# --- the fit stage's model frame --------------------------------------------------------

def _row_multiset(X, y) -> Counter:
    return Counter(row.tobytes() for row in np.column_stack([X, y]))


def _assert_frame_matches_rows(state):
    """The column path gives the row path's control transforms and, for every
    model, a design whose rows repeated by their weights are the row path's
    rows, bit for bit, and whose VIFs are a direct vif call's."""
    rows = oracles.model_rows(state)
    screening = state.config.screening
    assert state.control_transforms == oracles.control_transforms_rows(
        rows, pipeline.CONTINUOUS_CONTROLS, screening.skew_threshold, screening.skew_type,
        diagnostics.skewness,
    )
    frame, weights = pipeline._model_frame(state)
    assert {len(column) for column in frame.values()} == {len(weights)}
    assert int(weights.sum()) == len(rows)
    for model in state.models.values():
        spec = model.spec
        X, y, columns, n_dropped = oracles.encode_design_rows(rows, spec)
        design = glm.encode_design(frame, spec, weights)
        repeated = np.repeat(design.X, design.weights, axis=0), np.repeat(design.y, design.weights)
        assert _row_multiset(*repeated) == _row_multiset(X, y), spec.name
        assert (design.columns, design.n_dropped) == (columns, n_dropped), spec.name
        if model.fit is not None:
            assert model.fit.n_observations == len(y), spec.name
            assert model.vif == glm.vif(design.X, design.columns, design.weights), spec.name


@pytest.mark.parametrize("unit", ["pr", "contributor"])
def test_model_frame_matches_the_row_path(small_corpus_dir, tmp_path, unit):
    state = pipeline.run_pipeline(_config(small_corpus_dir, tmp_path / "out", unit=unit), "fit")
    assert len(state.models) == 3
    _assert_frame_matches_rows(state)


def test_model_frame_matches_the_row_path_on_the_scaled_corpus(scaled_corpus_dir, tmp_path):
    # The corpus and filter of acceptance criterion 8.
    config = _config(scaled_corpus_dir, tmp_path / "out", filter=FilterConfig())
    _assert_frame_matches_rows(pipeline.run_pipeline(config, "fit"))


_SAMPLES = st.one_of(
    st.lists(st.none() | st.floats(-5.0, 1e4, allow_nan=False), max_size=12),
    st.lists(st.none() | st.integers(0, 1000), max_size=12),
    st.builds(lambda value, n: [value] * n, st.floats(-2.0, 9.0, allow_nan=False), st.integers(0, 6)),
    st.builds(lambda n, big: [0.0] * n + [big], st.integers(0, 40), st.floats(1.0, 1e6)),
    st.builds(lambda n, low: [low] + [0.0] * n + [1e3], st.integers(0, 40), st.floats(-50.0, -0.5)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example(  # skewness exactly at the threshold is not above it
    samples={name: [0.0, 1.0, 2.0] for name in pipeline.CONTINUOUS_CONTROLS},
    repeats=[1] * 42,
    skew_threshold=0.0,
    skew_type=3,
)
@example(  # two values suffice for type 1, and their rounding-level skewness exceeds 0
    samples={name: [630.1503703287486, 6399.13353091701] for name in pipeline.CONTINUOUS_CONTROLS},
    repeats=[1] * 42,
    skew_threshold=0.0,
    skew_type=1,
)
@given(
    samples=st.fixed_dictionaries({name: _SAMPLES for name in pipeline.CONTINUOUS_CONTROLS}),
    repeats=st.lists(st.integers(1, 3), min_size=42, max_size=42),
    skew_threshold=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    skew_type=st.sampled_from([1, 2, 3]),
)
def test_control_transforms_match_the_row_rule(tmp_path_factory, samples, repeats, skew_threshold, skew_type):
    # Samples with too few values, zero variance, negative values and skewed
    # non-negative values; None is a missing value.  Frame row i stands for
    # repeats[i] rows of the unit, and the rule sees every one of them.
    n = max(map(len, samples.values()))
    columns = {name: values + [None] * (n - len(values)) for name, values in samples.items()}
    rows = [{name: column[i] for name, column in columns.items()} for i in range(n) for _ in range(repeats[i])]
    screening = diagnostics.ScreeningConfig(skew_threshold, 0.05, skew_type)
    config = _config("c", tmp_path_factory.mktemp("fit"), screening=screening, models=(1,))
    state = pipeline.PipelineResult(config)
    frame = {name: np.array(column, dtype=float) for name, column in columns.items()}
    with mock.patch.object(pipeline, "_model_frame", return_value=(frame, np.array(repeats[:n], dtype=np.int64))):
        pipeline._fit(config, state)
    assert state.control_transforms == oracles.control_transforms_rows(
        rows, pipeline.CONTINUOUS_CONTROLS, skew_threshold, skew_type, diagnostics.skewness
    )
