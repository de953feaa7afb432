from __future__ import annotations

import dataclasses
import gc
import json
import os
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

import synth
from conftest import CORPUS12_DATA_END
from prsafety import cli, github_fetch, pipeline
from prsafety import corpus as corpus_mod
from prsafety.corpus import DEFAULT_EXCLUDED_LABELS
from prsafety.cues import COUNT_CUES
from prsafety.participation import LabelingConfig
from test_github_fetch import PULLS, REPO, FakeSession, _fetcher


def _run_args(corpus_dir, out_dir, *extra):
    return [
        "--corpus", str(corpus_dir),
        "--out", str(out_dir),
        "--data-end", "2025-06-30",
        "--no-filter",
        *extra,
    ]


# --- run ---------------------------------------------------------------------------

def test_run_writes_every_artifact(small_corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", *_run_args(small_corpus_dir, out)]) == 0
    stdout = capsys.readouterr().out
    assert f"wrote 12 artifacts to {out}" in stdout
    for name in pipeline.ARTIFACT_FILES:
        assert (out / name).is_file(), name
    for name in ("model_1.json", "model_2.json", "model_3.json", "report.txt", "manifest.json"):
        assert (out / name).is_file(), name
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert list(manifest["model_failures"]) == ["3"]  # recorded, but not fatal


def test_manifest_lists_only_this_runs_artifacts(small_corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", *_run_args(small_corpus_dir, out)]) == 0
    full = json.loads((out / "manifest.json").read_text("utf-8"))["artifacts"]
    assert full == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    capsys.readouterr()
    assert cli.main(["run", *_run_args(small_corpus_dir, out), "--models", "1"]) == 0
    assert f"wrote 10 artifacts to {out}" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["artifacts"] == [
        name for name in full if name not in ("model_2.json", "model_3.json")
    ]
    assert (out / "model_2.json").is_file()  # left over, but not this run's


def test_run_exit_1_when_no_model_fits(corpus12_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main([
        "run",
        "--corpus", str(corpus12_dir),
        "--out", str(out),
        "--data-end", CORPUS12_DATA_END.isoformat(),
        "--no-filter",
    ])
    assert code == 1
    assert "no requested model has a finite fit" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["failure"]["stage"] == "fit"


def test_run_on_two_pulls_stops_at_the_fit_stage(tmp_path, capsys):
    # Two PRs are too few for any skewness: screening excludes each count
    # cue and names the count, and the run goes on to fail in the fit stage.
    corpus = synth.corpus12()
    corpus_mod.save_corpus(dataclasses.replace(corpus, pulls=corpus.pulls[:2]), tmp_path / "in")
    out = tmp_path / "out"
    assert cli.main(["run", *_run_args(tmp_path / "in", out)]) == 1
    assert "no requested model has a finite fit" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["artifacts"], "manifest.json"])
    assert len(manifest["artifacts"]) == 11
    assert manifest["failure"]["stage"] == "fit"
    assert manifest["model_failures"]["1"] == "predictor column 'PS_index_repository' is constant"
    reasons = {
        v["name"]: v["reason"] for v in manifest["screening"]["variables"] if v["kind"] == "continuous"
    }
    assert reasons == dict.fromkeys(COUNT_CUES, "skewness type 3 needs at least 3 observations, got 2")


def _run_subprocess(corpus_dir, out_dir, *extra):
    """`prsafety run` in a child process, which shows the real stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "prsafety.cli", "run", *_run_args(corpus_dir, out_dir, *extra)],
        env=env, capture_output=True, text=True,
    )


def test_run_without_pulls_writes_a_json_screening_report(tmp_path):
    # No pulls: every cue is excluded with a reason and no fraction, and the
    # run stops at the index stage.
    corpus = synth.corpus12()
    corpus_mod.save_corpus(dataclasses.replace(corpus, pulls=[]), tmp_path / "in")
    out = tmp_path / "out"
    result = _run_subprocess(tmp_path / "in", out)
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1] == "error: cannot compute thresholds from an empty cue table"
    assert "RuntimeWarning" not in result.stderr
    report = json.loads(
        (out / "screening_report.json").read_text("utf-8"),
        parse_constant=lambda name: pytest.fail(f"{name} is not JSON"),
    )
    binary = [v for v in report["variables"] if v["kind"] == "binary"]
    assert binary and all(v["action"] == "excluded" and v["minority_fraction"] is None for v in binary)


def _edit_lines(corpus_dir, name, edit):
    """Rewrite each line of one corpus file as edit(index, object) returns it."""
    path = corpus_dir / name
    objects = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    path.write_text("".join(json.dumps(edit(i, obj)) + "\n" for i, obj in enumerate(objects)), "utf-8")


def test_tiny_controls_end_in_a_fit_failure_not_a_traceback(small_corpus_dir, tmp_path):
    # Rates near 1e-160: screening's skewness must not divide by an
    # underflowed m2^(3/2), and beside the intercept the column is rank
    # deficient in every model.
    corpus = tmp_path / "in"
    shutil.copytree(small_corpus_dir, corpus)
    _edit_lines(corpus, "contributor_context.jsonl",
                lambda i, obj: {**obj, "contrib_rate_author": (i % 7 + 1) * 1e-160})
    result = _run_subprocess(corpus, tmp_path / "out")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: fit stage failed: no requested model has a finite fit")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text("utf-8"))
    assert manifest["model_failures"] == dict.fromkeys(
        ("1", "2", "3"), "design matrix is rank deficient; dependent columns: contrib_rate_author"
    )


@pytest.mark.parametrize(
    "name,field", [("pulls.jsonl", "reopen_count"), ("contributor_context.jsonl", "followers")]
)
def test_an_integer_past_the_int64_range_is_one_ingest_error(small_corpus_dir, tmp_path, name, field):
    corpus = tmp_path / "in"
    shutil.copytree(small_corpus_dir, corpus)
    _edit_lines(corpus, name, lambda i, obj: {**obj, field: 10**400} if i == 0 else obj)
    result = _run_subprocess(corpus, tmp_path / "out")
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    lines = (tmp_path / "out" / "ingest_errors.jsonl").read_text("utf-8").splitlines()
    assert [json.loads(line) for line in lines] == [{
        "file": name,
        "line": 1,
        "message": f"field {field!r} must be <= {2**63 - 1}, got {10**400}",
    }]


def test_missing_corpus_is_exit_2(tmp_path, capsys):
    code = cli.main(["run", *_run_args(tmp_path / "nowhere", tmp_path / "out")])
    assert code == 2
    assert "nowhere" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", corpus_mod.REQUIRED_FILES)
def test_a_missing_corpus_file_is_exit_2(small_corpus_dir, tmp_path, capsys, name):
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus_dir, corpus)
    (corpus / name).unlink()
    assert cli.main(["run", *_run_args(corpus, tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"configuration error: missing corpus file: {corpus / name}\n"
    assert not (tmp_path / "out").exists()


def test_bad_flag_values_are_exit_2(small_corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    base = _run_args(small_corpus_dir, out)
    assert cli.main(["run", *base, "--models", "1,x"]) == 2
    assert "bad --models" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["run", *base, "--models", "9"]) == 2
    assert "model indices" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["run", *base, "--data-end", "someday"]) == 2
    assert "ISO date" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["run", *base, "--data-end", "2019-01-01"]) == 2
    assert "precede" in capsys.readouterr().err
    assert not out.exists()
    # A horizon on the snapshot day is a setting at fault, not a model failure.
    assert cli.main(["run", *base, "--recent-horizon-end", "2019-06-30"]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: labeling.recent_horizon_end 2019-06-30 must follow snapshot_date 2019-06-30"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, problem",
    [("missing", "emoji table not found: {table}"),
     ("directory", "emoji table {table} cannot be read: Is a directory"),
     ("not_utf8", "emoji table {table} is not UTF-8 (byte 13)")],
)
def test_an_unreadable_emoji_table_is_exit_2(small_corpus_dir, tmp_path, kind, problem):
    table = tmp_path / "emoji.txt"
    if kind == "directory":
        table.mkdir()
    elif kind == "not_utf8":
        table.write_bytes(b"# version: x\n\xff\n")
    result = _run_subprocess(small_corpus_dir, tmp_path / "out", "--emoji-table", str(table))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr == f"configuration error: {problem.format(table=table)}\n"
    assert not (tmp_path / "out").exists()


def test_ingest_rejects_an_unreadable_emoji_table(small_corpus_dir, tmp_path, capsys):
    # Ingest reads no table, but the table is checked before the first
    # artifact whatever the command.
    table = tmp_path / "nope.txt"
    argv = ["ingest", *_run_args(small_corpus_dir, tmp_path / "out"), "--emoji-table", str(table)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: emoji table not found: {table}\n"
    assert not (tmp_path / "out").exists()


def test_missing_out_dir_is_exit_2(small_corpus_dir, capsys):
    code = cli.main([
        "run", "--corpus", str(small_corpus_dir), "--data-end", "2025-06-30", "--no-filter",
    ])
    assert code == 2
    assert "out_dir" in capsys.readouterr().err


def test_model_subset_flag(small_corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", *_run_args(small_corpus_dir, out), "--models", "1,2"]) == 0
    assert (out / "model_2.json").is_file()
    assert not (out / "model_3.json").exists()
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["model_failures"] == {}


def test_separated_model_alone_is_exit_1(small_corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", *_run_args(small_corpus_dir, out), "--models", "3"])
    assert code == 1
    assert "no requested model has a finite fit" in capsys.readouterr().err
    payload = json.loads((out / "model_3.json").read_text("utf-8"))
    assert payload["error"].startswith("quasi-separation")


def test_importing_the_cli_leaves_requests_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, prsafety.cli; print('requests' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_importing_the_package_loads_no_numpy_and_binds_no_names():
    # Each public name has one import path, its module's, so the package
    # root imports nothing and a caller may set numpy's environment first.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import json, sys, prsafety\n"
        "public = sorted(name for name in vars(prsafety) if not name.startswith('_'))\n"
        "print(json.dumps(['numpy' in sys.modules, public]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(result.stdout) == [False, []]


def test_a_run_loads_no_openssl(small_corpus_dir, tmp_path):
    # The config hash takes the interpreter's own SHA-256, so neither the
    # import nor a whole run loads hashlib's OpenSSL binding, _hashlib.  An
    # old numpy imports it itself (numpy.random, through secrets); the run
    # then adds nothing.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["run", *_run_args(small_corpus_dir, tmp_path / "out")]
    probe = (
        "import sys, numpy\n"
        "by_numpy = '_hashlib' in sys.modules\n"
        "from prsafety import cli\n"
        "imported = '_hashlib' in sys.modules\n"
        f"code = cli.main({argv!r})\n"
        "print(by_numpy, imported, '_hashlib' in sys.modules, code)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    by_numpy, imported, after_run, code = result.stdout.splitlines()[-1].split()
    assert code == "0"
    assert imported == after_run == by_numpy


def test_a_run_imports_no_numpy_module_past_the_cli(corpus12_dir, tmp_path):
    # numpy 2's np.unique imports numpy.ma (about 1 MB resident); the 0/1
    # checks call it only to word an error.  numpy 1 imports numpy.ma up
    # front, and the run then adds nothing either.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["run", "--corpus", str(corpus12_dir), "--out", str(tmp_path / "out"),
            "--data-end", "2021-06-30", "--no-filter"]
    probe = (
        "import json, sys\n"
        "from prsafety import cli\n"
        "def loaded(): return {m for m in sys.modules if m.split('.')[0] == 'numpy'}\n"
        "before = loaded()\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(loaded() - before)]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    code, added = json.loads(result.stdout.splitlines()[-1])
    assert code == 1  # every stage runs; on twelve pulls no model has a finite fit
    assert (tmp_path / "out" / "manifest.json").is_file()
    assert added == []


@pytest.mark.parametrize(
    "preset, expected",
    [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"])],
    ids=["unset", "openblas_preset"],
)
def test_the_cli_gives_blas_one_thread_unless_the_caller_chose(preset, expected):
    # The CLI sets each BLAS thread count that is unset before numpy's first
    # import, when numpy reads them; a count the caller set is kept.
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if name not in names}
    env.update(preset, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import json, os, sys\n"
        f"names = {names!r}\n"
        "at_numpy = []\n"
        "class Probe:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not at_numpy:\n"
        "            at_numpy.append([os.environ.get(n) for n in names])\n"
        "sys.meta_path.insert(0, Probe())\n"
        "import prsafety\n"
        "untouched = [os.environ.get(n) for n in names]\n"
        "import prsafety.cli\n"
        "print(json.dumps([untouched, at_numpy, [os.environ.get(n) for n in names]]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    untouched, at_numpy, after = json.loads(result.stdout)
    assert untouched == [preset.get(name) for name in names]
    assert at_numpy == [expected]
    assert after == expected


# --- config files ------------------------------------------------------------------

def test_config_file_with_out_override(small_corpus_dir, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "corpus_dir": str(small_corpus_dir),
                "labeling": {"data_end": "2025-06-30"},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "from_cli"
    assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "manifest.json").is_file()


def test_config_file_flag_overrides_values(small_corpus_dir, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "corpus_dir": str(small_corpus_dir),
                "out_dir": str(tmp_path / "ignored"),
                "labeling": {"data_end": "2025-06-30"},
                "models": [1, 2, 3],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "actual"
    code = cli.main(["run", "--config", str(config_path), "--out", str(out), "--models", "1"])
    assert code == 0
    assert (out / "model_1.json").is_file()
    assert not (out / "model_2.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


class _Literal(str):
    """A config value written into the file as raw JSON text, which json.dumps cannot write."""


@pytest.mark.parametrize(
    "key, value",
    [
        ("filter", 5),
        ("filter", "x"),
        ("labeling", "x"),
        ("screening", [1]),
        ("merged_only", "false"),
        ("global_activity", 1),
        ("labeling", {"window_months": "x"}),
        ("labeling", {"gap_months": 1.5}),
        ("labeling", {"censor_margin_months": True}),
        ("filter", {"top_n_by_stars": "200"}),
        ("filter", {"excluded_labels": "bug"}),
        ("filter", {"excluded_labels": ["bug", 3]}),
        ("screening", {"skew_threshold": "x"}),
        ("screening", {"minority_threshold": False}),
        ("screening", {"skew_type": 3.0}),
        ("filter", {"top_n_by_stars": 0}),
        ("screening", {"skew_type": 7}),
        ("screening", {"minority_threshold": 2}),
        ("screening", {"skew_threshold": float("nan")}),
        ("screening", {"skew_threshold": 10**400}),
        ("models", [True, 2.0]),
        ("models", [1.0]),
        ("models", "12"),
        ("models", 3),
        ("models", []),
        ("models", [[1]]),
        ("models", [1, 1]),
        ("corpus_dir", 5),
        ("emoji_table_path", 5),
        ("emoji_table_path", ""),
        ("unit", 3),
        ("threshold_scope", 1),
        ("labeling", None),
        ("screening", None),
        ("treshold_scope", "per_repository"),
        ("labeling", {"window_month": 6}),
        pytest.param("threshold_scope", _Literal("9" * 5000), id="integer_past_digit_limit"),
        pytest.param("models", _Literal("[" * 100_000 + "]" * 100_000), id="nested_too_deeply"),
    ],
)
def test_malformed_config_values_are_exit_2(small_corpus_dir, tmp_path, capsys, key, value):
    config_path = tmp_path / "config.json"
    text = json.dumps({"corpus_dir": str(small_corpus_dir), key: value})
    if isinstance(value, _Literal):
        text = text.replace(json.dumps(value), value)
    config_path.write_text(text, encoding="utf-8")
    code = cli.main([
        "ingest", "--config", str(config_path), "--out", str(tmp_path / "out"),
        "--data-end", "2025-06-30",
    ])
    assert code == 2
    err = capsys.readouterr().err
    # A file that json cannot read is named as a file; every other error names its key.
    assert (str(config_path) if isinstance(value, _Literal) else key) in err
    if isinstance(value, dict):
        (name,) = value
        assert f"{key}.{name}" in err


def _exit_code(argv) -> int:
    """cli.main's exit code, also where argparse rejects a flag and exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _no_session(*args, **kwargs):
    raise AssertionError("a fetch session was built")


@pytest.mark.parametrize(
    "value, accepted",
    [(20250630, False), ("20250630", False), ("2025-W26-1", False), ("2025-06-30T00:00", False),
     ("2025-02-30", False), ("2025-06-30", True), (date(2025, 6, 30), True)],
    ids=repr,
)
@pytest.mark.parametrize("key", ["data_end", "snapshot_date", "recent_horizon_end"])
def test_dates_follow_one_grammar(small_corpus_dir, tmp_path, capsys, key, value, accepted):
    # The recent horizon ends after every snapshot date tried, so that it follows the snapshot.
    labeling = {"data_end": "2026-06-30", "recent_horizon_end": "2026-06-30"}
    raw = {"corpus_dir": str(small_corpus_dir), "out_dir": str(tmp_path / "out"),
           "labeling": {**labeling, key: value}}
    if accepted:
        assert pipeline.config_from_dict(raw).labeling == LabelingConfig(
            **{"data_end": date(2026, 6, 30), "recent_horizon_end": date(2026, 6, 30),
               key: date(2025, 6, 30)}
        )
    else:
        with pytest.raises(pipeline.ConfigError, match=f"labeling.{key} must be an ISO date"):
            pipeline.config_from_dict(raw)
    flag = "--" + key.replace("_", "-")
    code = _exit_code(["ingest", *_run_args(small_corpus_dir, tmp_path / "out"),
                       "--data-end", "2026-06-30", "--recent-horizon-end", "2026-06-30",
                       flag, str(value)])
    assert code == (0 if accepted else 2)
    if not accepted:
        assert f"labeling.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1_2", " 12", "+12", "\u0661\u0662", "12.0", "-1"])
@pytest.mark.parametrize(
    "command, flag",
    [("ingest", "--window-months"), ("ingest", "--censor-margin-months"), ("ingest", "--gap-months"),
     ("fetch", "--page-size"), ("fetch", "--max-retries")],
)
def test_integer_flags_take_ascii_digits_only(
    small_corpus_dir, tmp_path, capsys, monkeypatch, command, flag, value
):
    monkeypatch.setattr(cli.github_fetch, "GitHubFetcher", _no_session)
    out = tmp_path / "out"
    if command == "fetch":
        argv = ["fetch", "--repo", "acme/site", "--out", str(out)]
    else:
        argv = ["ingest", *_run_args(small_corpus_dir, out)]
    assert _exit_code([*argv, f"{flag}={value}"]) == 2
    assert "expected ASCII digits" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_without_filter_filters_like_flags(small_corpus_dir, tmp_path):
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "corpus_dir": str(small_corpus_dir), "out_dir": str(out), "labeling": {"data_end": "2025-06-30"},
    }), encoding="utf-8")
    manifests = []
    for argv in (["run", "--config", str(config_path)],
                 ["run", "--corpus", str(small_corpus_dir), "--out", str(out), "--data-end", "2025-06-30"]):
        assert cli.main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        manifests.append((manifest["config"], manifest["config_hash"]))
    assert manifests[0] == manifests[1]
    assert manifests[0][0]["filter"] == {"excluded_labels": sorted(DEFAULT_EXCLUDED_LABELS),
                                         "top_n_by_stars": 200}
    raw = {**json.loads(config_path.read_text("utf-8")), "filter": None}
    assert pipeline.config_from_dict(raw).filter is None


# --- stage subcommands ------------------------------------------------------------------

@pytest.fixture(scope="module")
def run_out(small_corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    assert cli.main(["run", *_run_args(small_corpus_dir, out)]) == 0
    return out


@pytest.mark.parametrize("stop", range(len(pipeline.STAGES)), ids=lambda i: pipeline.STAGES[i].name)
def test_stage_writes_run_artifacts_of_its_prefix(small_corpus_dir, run_out, tmp_path, stop):
    ran = pipeline.STAGES[: stop + 1]
    out = tmp_path / "out"
    assert cli.main([ran[-1].name, *_run_args(small_corpus_dir, out)]) == 0
    expected = {name for stage in ran for name in stage.artifacts}
    if "fit" in {stage.name for stage in ran}:
        expected |= {"model_1.json", "model_2.json", "model_3.json"}
    written = {p.name for p in out.iterdir()}
    assert ("manifest.json" in written) == (ran[-1].name == "run")  # only run writes the manifest
    assert written == expected
    for name in written - {"manifest.json"}:
        assert (out / name).read_bytes() == (run_out / name).read_bytes(), name
    if "manifest.json" in written:
        # The manifest records the output directory, and hashes it with the
        # rest of the config; everything else must match.
        manifests = [json.loads((d / "manifest.json").read_text("utf-8")) for d in (out, run_out)]
        for manifest in manifests:
            config = pipeline.config_from_dict(manifest["config"])
            assert manifest.pop("config_hash") == pipeline.config_hash(config)
            manifest["config"]["out_dir"] = "out"
        assert manifests[0] == manifests[1]


@pytest.mark.parametrize("command", ["fit", "report"])
def test_fit_and_report_load_the_corpus_once(small_corpus_dir, tmp_path, monkeypatch, command):
    calls = []
    load_corpus = corpus_mod.load_corpus

    def counting(*args, **kwargs):
        calls.append(args)
        return load_corpus(*args, **kwargs)

    monkeypatch.setattr(corpus_mod, "load_corpus", counting)
    assert cli.main([command, *_run_args(small_corpus_dir, tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["fit", "report"])
def test_fit_and_report_exit_1_when_no_model_fits(corpus12_dir, tmp_path, capsys, command):
    out = tmp_path / "out"
    code = cli.main([
        command,
        "--corpus", str(corpus12_dir),
        "--out", str(out),
        "--data-end", CORPUS12_DATA_END.isoformat(),
        "--no-filter",
    ])
    assert code == 1
    assert "no requested model has a finite fit" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_every_command_through_fit_fails_with_one_message(corpus12_dir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["--corpus", str(corpus12_dir), "--out", str(out),
            "--data-end", CORPUS12_DATA_END.isoformat(), "--no-filter"]
    outputs = []
    for command in ("fit", "report", "run"):
        assert cli.main([command, *argv]) == 1, command
        outputs.append(capsys.readouterr())
    assert [o.out for o in outputs] == ["", "", ""]  # a failed fit prints no summary
    err = outputs[0].err
    assert [o.err for o in outputs] == [err] * 3
    failures = json.loads((out / "manifest.json").read_text("utf-8"))["model_failures"]
    notes = "".join(f"\n  model_{i} has no finite fit: {why}" for i, why in failures.items())
    assert err == f"error: fit stage failed: no requested model has a finite fit; see {out}{notes}\n"


def test_ingest_stage(small_corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["ingest", *_run_args(small_corpus_dir, out)]) == 0
    counts = json.loads(capsys.readouterr().out)
    assert counts["pulls"] == 610
    assert counts["ingest_errors"] == 0
    assert (out / "ingest_errors.jsonl").is_file()
    assert not (out / "cues.csv").exists()


def test_cues_stage(small_corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["cues", *_run_args(small_corpus_dir, out)]) == 0
    assert "610 pull requests" in capsys.readouterr().out
    header = (out / "cues.csv").read_text("utf-8").splitlines()[0]
    assert header.startswith("repo_full_name,pr_number,merged_or_not")


def test_screen_stage(small_corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["screen", *_run_args(small_corpus_dir, out)]) == 0
    stdout = capsys.readouterr().out
    assert "variable" in stdout and "decision" in stdout
    payload = json.loads((out / "screening_report.json").read_text("utf-8"))
    assert len(payload["variables"]) == 13


def test_label_stage(small_corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["label", *_run_args(small_corpus_dir, out)]) == 0
    assert "labeled 50 contributors" in capsys.readouterr().out
    lines = (out / "labels.csv").read_text("utf-8").splitlines()
    assert len(lines) == 51


def test_index_stage(small_corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["index", *_run_args(small_corpus_dir, out)]) == 0
    assert "PS Index" in capsys.readouterr().out
    assert (out / "ps_index_repository.csv").is_file()
    assert (out / "ps_index_contributor.csv").is_file()


def test_fit_stage_reports_failures_too(small_corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["fit", *_run_args(small_corpus_dir, out)]) == 0
    stdout = capsys.readouterr().out
    assert "model_1: n=543" in stdout
    assert "model_2: n=543" in stdout
    assert "model_3: no finite fit" in stdout


def test_report_stage_prints_report(small_corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["report", *_run_args(small_corpus_dir, out)]) == 0
    stdout = capsys.readouterr().out
    assert "PS index by repository (0-10 scale)" in stdout
    assert "Sustained participation models" in stdout


# --- the cyclic collector -------------------------------------------------------------

@pytest.fixture
def collector_restored():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.fixture
def collector_seen_by_ingest(monkeypatch):
    """gc.isenabled() at each call of corpus.load_corpus, observed as the tracer wraps it."""
    seen = []
    load_corpus = corpus_mod.load_corpus

    def observed(*args, **kwargs):
        seen.append(gc.isenabled())
        return load_corpus(*args, **kwargs)

    monkeypatch.setattr(corpus_mod, "load_corpus", observed)
    return seen


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_stage_commands_pause_the_collector_and_restore_it(
    small_corpus_dir, corpus12_dir, tmp_path, capsys, collector_restored, collector_seen_by_ingest,
    enabled,
):
    fails_to_fit = ["--corpus", str(corpus12_dir), "--out", str(tmp_path / "fail"),
                    "--data-end", CORPUS12_DATA_END.isoformat(), "--no-filter"]
    runs = [
        (["ingest", *_run_args(small_corpus_dir, tmp_path / "ingest")], 0),
        (["run", *fails_to_fit], 1),
        (["fit", *fails_to_fit], 1),
        (["run", *_run_args(tmp_path / "nowhere", tmp_path / "out")], 2),
        (["run", *_run_args(small_corpus_dir, tmp_path / "out"), "--models", "4"], 2),
    ]
    for argv, code in runs:
        (gc.enable if enabled else gc.disable)()
        assert cli.main(argv) == code, argv
        assert gc.isenabled() is enabled, argv
    assert collector_seen_by_ingest == [False, False, False]


def test_run_pipeline_leaves_the_collector_as_the_caller_set_it(
    small_corpus_dir, tmp_path, collector_restored, collector_seen_by_ingest
):
    config = pipeline.config_from_dict({"corpus_dir": str(small_corpus_dir), "out_dir": str(tmp_path),
                                        "labeling": {"data_end": "2025-06-30"}})
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        pipeline.run_pipeline(config, through="ingest")
        assert gc.isenabled() is enabled
    assert collector_seen_by_ingest == [True, False]


def test_cyclic_garbage_of_a_run_does_not_grow_with_the_corpus(
    small_corpus_dir, scaled_corpus_dir, tmp_path, capsys, collector_restored
):
    # Pausing the collector for a command is sound only while a run leaves
    # no cyclic garbage in proportion to its input.
    def garbage(corpus_dir) -> int:
        gc.collect()
        gc.disable()
        assert cli.main(["run", *_run_args(corpus_dir, tmp_path / "out")]) == 0
        return gc.collect()

    garbage(small_corpus_dir)  # first-call caches
    small = garbage(small_corpus_dir)
    scaled = garbage(scaled_corpus_dir)
    assert scaled - small <= 100, (small, scaled)


# --- fetch wiring ---------------------------------------------------------------------

def test_fetch_maps_flags_to_job(tmp_path, capsys, monkeypatch):
    captured = {}

    class FakeFetcher:
        def fetch_repository(self, job):
            captured["job"] = job
            return github_fetch.FetchReport(repo_full_name=job.repo_full_name, pulls=3)

    monkeypatch.setattr(cli.github_fetch, "GitHubFetcher", FakeFetcher)
    code = cli.main([
        "fetch",
        "--repo", "acme/site",
        "--out", str(tmp_path / "corpus"),
        "--token-env", "MY_EXPORT_TOKEN",
        "--page-size", "50",
        "--max-retries", "5",
        "--since", "2019-01-01T00:00:00Z",
    ])
    assert code == 0
    job = captured["job"]
    assert job.repo_full_name == "acme/site"
    assert job.auth_token_source == "MY_EXPORT_TOKEN"
    assert job.page_size == 50
    assert job.max_retries == 5
    assert job.since == "2019-01-01T00:00:00Z"
    assert json.loads(capsys.readouterr().out)["pulls"] == 3


@pytest.mark.parametrize(
    "flag, named",
    [("--repo=noslash", "owner/name"), ("--page-size=0", "page_size"),
     ("--page-size=101", "page_size"), ("--max-retries=-1", "--max-retries"),
     ("--since=yesterday", "invalid RFC 3339 timestamp 'yesterday'")],
)
def test_bad_fetch_flags_are_exit_2(tmp_path, capsys, monkeypatch, flag, named):
    monkeypatch.setattr(cli.github_fetch, "GitHubFetcher", _no_session)
    out = tmp_path / "corpus"
    assert _exit_code(["fetch", "--repo", "acme/site", "--out", str(out), flag]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("number", ["2", True, None, 0], ids=repr)
def test_fetch_of_a_bad_pull_number_is_exit_1(tmp_path, capsys, monkeypatch, number):
    # "2" or None cannot be sorted with 1, true would replace pull 1, and 0 is no pull number.
    fetcher = _fetcher(FakeSession(pulls=[PULLS[0], {**PULLS[1], "number": number}]))
    monkeypatch.setattr(cli.github_fetch, "GitHubFetcher", lambda: fetcher)
    assert cli.main(["fetch", "--repo", REPO, "--out", str(tmp_path / "corpus")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: pulls item {PULLS[1]['id']} number: expected an integer >= 1, got {number!r}\n"
    assert captured.out == ""


def test_fetch_failure_is_exit_1(tmp_path, capsys, monkeypatch):
    class FakeFetcher:
        def fetch_repository(self, job):
            raise github_fetch.RepoNotFoundError("acme/site: GET /repos/acme/site returned 404")

    monkeypatch.setattr(cli.github_fetch, "GitHubFetcher", FakeFetcher)
    assert cli.main(["fetch", "--repo", "acme/site", "--out", str(tmp_path)]) == 1
    assert "404" in capsys.readouterr().err


def test_fetch_over_a_finished_export_missing_a_file_is_exit_1(tmp_path, capsys, monkeypatch):
    # A finished export is validated, not fetched again; with repos.jsonl gone
    # load_corpus raises CorpusError, which main reports like any runtime failure.
    fetcher = _fetcher(FakeSession())
    monkeypatch.setattr(cli.github_fetch, "GitHubFetcher", lambda: fetcher)
    out = tmp_path / "corpus"
    argv = ["fetch", "--repo", REPO, "--out", str(out)]
    assert cli.main(argv) == 0
    (out / "repos.jsonl").unlink()
    capsys.readouterr()
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: missing corpus file: {out / 'repos.jsonl'}\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""
